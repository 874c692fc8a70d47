"""Reflection amplitudes for all response models.

Three routes to the reflection amplitudes live here:

* Fresnel amplitudes for local (k-independent) permittivities,
* the closed-form amplitudes for transverse/longitudinal pairs,
* one analytic zero-frequency limit for every model, for the l = 0 term,
  where naive permittivity evaluation is a 0/0 mess.

Beside them sit the surface impedances, both in closed form (valid when
the permittivities do not depend on the normal wavevector component) and
as the defining k_z integrals evaluated numerically.

On the imaginary axis all quantities are real; on the real axis they are
complex and the square-root branch is fixed by demanding a transmitted
wave that decays into the metal (Im root >= 0).

Everything accepts numpy arrays in the k_hat slot and broadcasts, except
impedance_numeric, which takes one point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import integrate
from .response import (Drude, EpsPair, NonlocalAlt, PerfectReflector, Plasma,
                       ResponseModel, WithCore, check_point, eval_imag_axis,
                       eval_real_axis, pole_weight)


class ReflectionPair(NamedTuple):
    r_tm: complex
    r_te: complex


class ImpedancePair(NamedTuple):
    z_tm: complex
    z_te: complex


def q_hat(xi, k_hat, eps=1.0):
    """Decay wavenumber sqrt(k_hat^2 + eps xi^2), as an energy in eV, in a
    medium of permittivity eps: the vacuum q by default, k_t at eps_t."""
    return _decay_root(k_hat * k_hat, xi, eps)


def _decay_root(kk, xi, eps):
    """q_hat from kk = k_hat^2, rooted in place if a float array."""
    s = kk + eps * xi * xi
    own = isinstance(s, np.ndarray) and s.dtype.kind == "f"
    return np.sqrt(s, out=s if own else None)


def fresnel(eps, xi, k_hat):
    """Fresnel amplitudes at imaginary frequency xi > 0 (eps_l = eps_t)."""
    return nonlocal_coeffs(EpsPair(eps, eps), xi, k_hat)


def nonlocal_coeffs(eps: EpsPair, xi, k_hat):
    """Amplitudes for a transverse/longitudinal permittivity pair.

    The TM amplitude carries a correction proportional to eps_t - eps_l
    which vanishes identically for a k-independent response, collapsing
    both amplitudes to the Fresnel forms bit for bit.
    """
    check_point(xi, k_hat)
    if np.any(eps.eps_l == 0.0):
        raise DomainError("eps_l = 0 makes the TM coefficient singular")
    return _imag_axis_amplitudes(eps, xi, k_hat)


def _imag_axis_amplitudes(eps: EpsPair, xi, k_hat):
    kk = k_hat * k_hat              # one square for both roots
    return _amplitudes(eps, _decay_root(kk, xi, 1.0),
                       _decay_root(kk, xi, eps.eps_t), k_hat)


def _amplitudes(eps: EpsPair, q, k_t, k):
    """Both amplitudes from the vacuum and transverse normal wavenumbers
    q, k_t and the in-plane wavenumber k, all in units of one frequency.
    Each quotient is written in place over a numerator made here, in the
    operand order (so with the bits) of the plain formulas."""
    tm = eps.eps_t * q
    den = tm + k_t
    tm -= k_t
    if eps.eps_l is not eps.eps_t:  # else local: the TM correction is 0
        corr = k * (eps.eps_t - eps.eps_l) / eps.eps_l
        tm, den = tm - corr, den + corr     # eps_l may widen shape, dtype
    tm /= den
    te = q - k_t
    te /= q + k_t
    return ReflectionPair(tm, te)


def impedance_closed(eps: EpsPair, xi, k_hat):
    """Surface impedances when the permittivities carry no k_z dependence."""
    check_point(xi, k_hat)
    k_t = q_hat(xi, k_hat, eps.eps_t)
    z_tm = (k_hat / eps.eps_l + (k_t - k_hat) / eps.eps_t) / xi
    z_te = xi / k_t
    return ImpedancePair(z_tm, z_te)


def impedance_numeric(eps_of_k, xi, k_hat, tol=1e-8):
    """Surface impedances from their defining k_z integrals.

    eps_of_k(xi, k_perp_hat, k_z_hat) -> EpsPair may depend on the full
    wavevector, but must be even in k_z.  It is called once with the float
    k_z_hat = 0.0, then with 2-d float arrays of k_z_hat >= 0, and may
    return scalars or arrays that broadcast against them.  The even
    integrands are folded onto k_z > 0 and mapped by k_z = s tan(theta)
    with s = sqrt(k_hat^2 + eps_t(k_z = 0) xi^2), so z = (2 xi/pi)
    int_0^{pi/2} d theta of an integrand that stays bounded and finite at
    both ends: their 1/k_z^2 tails become finite values at theta = pi/2.
    Both impedances are rows of one G10/K21 block (nlcasimir.quadrature),
    each on 4 equal panels at relative tolerance tol/4.

    Raises DomainError unless xi is a finite scalar > 0, k_hat a finite
    scalar >= 0 and tol finite and > 0, and ConvergenceError carrying the
    estimate unless the error estimate of each integral is at most tol
    times its value.
    """
    if np.ndim(xi) or np.ndim(k_hat):
        raise DomainError("impedance_numeric takes one point: xi and k_hat "
                          "must be scalars")
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    check_point(xi, k_hat)

    xi2, kp2 = xi * xi, k_hat * k_hat
    s = math.sqrt(abs(kp2 + eps_of_k(xi, k_hat, 0.0).eps_t * xi2))
    s2 = s * s

    # row 0 is z_tm, row 1 z_te; with c = cos(theta), n = sin(theta): k_z^2
    # = s^2 n^2 / c^2 and the Jacobian s / c^2 cancels every 1/c^2 the
    # denominators bring in
    def integrand(rows, theta):
        c2 = np.cos(theta) ** 2
        n2 = np.sin(theta) ** 2
        pair = eps_of_k(xi, k_hat, s * np.tan(theta))
        k_t2 = kp2 + pair.eps_t * xi2
        sn2 = s2 * n2
        den_t = k_t2 * c2 + sn2
        tm = s * (kp2 / (xi2 * pair.eps_l) + sn2 / den_t) / (kp2 * c2 + sn2)
        return np.where((rows == 0)[:, None], tm, s / den_t)

    edges = np.tile(np.linspace(0.0, math.pi / 2.0, 5), (2, 1))
    values, errors, _ = integrate(integrand, edges, tol / 4.0)
    pair = ImpedancePair(*((2.0 * xi / math.pi) * values).tolist())
    if not np.all(errors <= tol * np.abs(values)):  # NaN misses too
        raise ConvergenceError(
            f"impedance integrals did not reach {tol} "
            f"(xi={xi}, k_hat={k_hat})", last_estimate=pair)
    return pair


def zero_freq_limit(model: ResponseModel, k_hat):
    """Reflection amplitudes in the static limit, analytically.

    These are 0/0 limits of the finite-frequency formulas; evaluating them
    analytically keeps the l = 0 pressure term free of catastrophic
    cancellation.  One formula serves every model: r_TE = (k - s)/(k + s)
    with s^2 = k^2 + W and W the limit of xi^2 eps_T, which is omega_p^2
    without dissipation, 0 for the local dissipative response (no TE
    reflection at all) and the pole weight of the nonlocal response (a
    small TE amplitude controlled by v_T).  r_TM is 1 but for the nonlocal
    response, whose TM amplitude dips below unity through v_L.  k_hat must
    lie in [2^-511, 2^512) eV, where k_hat^2 is normal, or DomainError.
    """
    low, high = check_point(k_hat, 0.0, "k_hat")
    if low < 2.0**-511 or high >= 2.0**512:
        raise DomainError("zero_freq_limit needs k_hat in [2^-511, 2^512) "
                          f"eV, got {low if low < 2.0**-511 else high}")
    core = 1.0
    if isinstance(model, WithCore):
        # a core shifts the static eps_L, which feeds the nonlocal TM
        # limit; TE is core-blind (core xi^2 -> 0)
        model, core = model.inner, model.core.value_at(0.0)
    if isinstance(model, PerfectReflector):
        return ReflectionPair(1.0, -1.0)
    r_tm = 1.0
    if isinstance(model, (Drude, Plasma)):          # Plasma: gamma = 0
        p = model.params
        weight = p.omega_p**2 if p.gamma == 0.0 else 0.0
    elif isinstance(model, NonlocalAlt):
        p, g = model.params, model.params.drude.gamma
        if g == 0.0:
            raise DomainError(
                "static limit of the nonlocal response needs gamma > 0")
        # TM is (e0 - 1)/(e0 + 1) at the static eps_L e0 = core + wp^2/(g
        # vL k), written to stay regular at vL = 0 where e0 diverges
        wp2, vlk = p.drude.omega_p**2, p.v_l_ratio * k_hat * g
        r_tm = (wp2 + vlk * (core - 1.0)) / (wp2 + vlk * (core + 1.0))
        weight = pole_weight(p, k_hat)
    else:
        raise TypeError(f"unknown response model {model!r}")
    root = np.sqrt(k_hat * k_hat + weight)
    return ReflectionPair(r_tm, (k_hat - root) / (k_hat + root))


def reflection_pair(model: ResponseModel, xi, k_hat):
    """Amplitudes for any model at imaginary frequency xi > 0."""
    if isinstance(model, PerfectReflector):
        return ReflectionPair(1.0, -1.0)
    # eval_imag_axis has checked xi and k_hat, and its eps_l is >= 1
    return _imag_axis_amplitudes(eval_imag_axis(model, xi, k_hat), xi, k_hat)


def _decaying_root(z):
    root = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(root.imag < 0.0, -root, root)


def real_axis_coeffs(model: ResponseModel, omega, theta):
    """On-shell complex amplitudes at real frequency and incidence angle.

    The transverse wavevector is fixed by the mass shell, k_hat =
    omega*sin(theta).  At theta = 0 the two amplitudes obey r_tm = -r_te,
    so the reflectances coincide.
    """
    if not 0.0 <= theta < math.pi / 2.0:
        raise DomainError(f"theta must lie in [0, pi/2), got {theta}")
    if isinstance(model, PerfectReflector):
        return ReflectionPair(complex(1.0), complex(-1.0))
    st = math.sin(theta)
    eps_l, eps_t, _ = eval_real_axis(model, omega, omega * st)
    if st == 0.0 and eps_t == 0.0:      # r_TM is 0/0; its limit is -r_TE
        return ReflectionPair(complex(-1.0), complex(1.0))
    # equal components (a local model) take no TM correction, 0/0 at eps = 0;
    # the imaginary-axis formulas with every wavenumber divided by -i omega
    return _amplitudes(EpsPair(eps_t if eps_l == eps_t else eps_l, eps_t),
                       math.cos(theta),
                       complex(_decaying_root(eps_t - st * st)), 1j * st)


class ReflectanceDeviation(NamedTuple):
    reflectance_tm: float
    reflectance_te: float
    deviation_tm: float
    deviation_te: float


def reflectance_deviation(model_nl: ResponseModel, model_loc: ResponseModel,
                          omega, theta):
    """Reflectances of model_nl and their relative deviations from model_loc."""
    r_nl = real_axis_coeffs(model_nl, omega, theta)
    r_loc = real_axis_coeffs(model_loc, omega, theta)
    big_tm, big_te, ref_tm, ref_te = (abs(r) ** 2 for r in (*r_nl, *r_loc))
    if ref_tm == 0.0 or ref_te == 0.0:
        raise DomainError("reference reflectance vanishes; deviation undefined")
    return ReflectanceDeviation(big_tm, big_te,
                                (big_tm - ref_tm) / ref_tm,
                                (big_te - ref_te) / ref_te)
