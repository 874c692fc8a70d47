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

There are three kernels: real part from imaginary part, imaginary part
from real part, and imaginary-axis value from imaginary part.  Each is
written once as the eps_T formula with its pole terms (-W / omega^2,
+4 pi sigma_0 / omega, +W / xi^2), and the eps_L relation is the same
formula at W = sigma_0 = 0.  RELATIONS is {t, l} x kernels, six relation
ids, and verify_kk runs one on a grid; it is the only entry point to the
checks.

verify_kk runs a relation as one pass of nlcasimir.quadrature whose rows
are its grid points w; eval_real_axis takes all nodes as one array.
Each row starts on [0, 1e-3] eV and 28 log panels up to the cutoff K =
1e4 eV, split at the break points (gamma, v_L k_hat) and at w, and runs
in u, its initial panel's index plus the position inside it, so that
each initial panel gets the same share of the tolerance.  On the real
axis the pole is subtracted, leaving the integrand finite at x = w:

    PV int_0^K g(x) / (x^2 - w^2) dx = int_0^K [g(x) - g(w)] / (x^2 - w^2) dx
                                       + g(w) ln((K - w) / (K + w)) / (2w)

The tail beyond K is K f(K), as in pv_integral, the slow reference.

All integrals are folded onto (0, cutoff) using the Hermitian symmetry
eps(-x) = conj(eps(x)) that the underlying models obey, so the kernels
below are the folded ones: (x^2 - omega^2) in place of (x - omega).

Reports are KKReport records with residuals normalized by
max(|LHS|, |RHS|, 1), which stays meaningful both where eps is huge and
where it is close to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import integrate, quad
from .response import (FOUR_PI, NonlocalAlt, NonlocalParams, eval_imag_axis,
                       eval_real_axis, pole_weight,
                       static_transverse_conductivity)

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
        return _DEFAULT_GRID
    g = np.atleast_1d(np.asarray(grid, dtype=float))
    if g.size == 0:
        raise DomainError(f"{label} must not be empty")
    if not (np.all(g > 0.0) and np.all(g < math.inf)):   # NaN fails too
        raise DomainError(f"{label} must be finite and positive")
    return g


_EPS_L, _EPS_T = 0, 1          # EpsPair fields
_CUTOFF = PVSettings().cutoff  # eV; the tail estimate K f(K) covers the rest
# [0, 1e-3] eV, then four log panels per decade up to the cutoff
_EDGES = np.concatenate([[0.0], np.geomspace(1e-3, _CUTOFF, 29)])
# |K15 - G7| is G7's error, far above K15's; much below 1e-6 it meets the
# rounding of Re eps_T + W / x^2 near x = 0, which bisection only worsens
_TOL, _ABS_TOL = 1e-6, 1e-12
# verify_kk's default grid, built once; read-only, since every call shares it
_DEFAULT_GRID = np.geomspace(0.05, 5.0, 13)
_DEFAULT_GRID.setflags(write=False)


class Kernel(NamedTuple):
    """What a relation integrates and rebuilds, whatever the component:
    g(x) / (x^2 -+ w^2) on the real (imaginary) axis, g = spectral(eps)."""

    real_axis: bool        # grid of omega, principal value at x = omega
    spectral: Callable
    rebuild: Callable      # (w, integral) -> right-hand side
    target: Callable       # eps at w, on the relation's axis -> left-hand side
    # (w, W, 4 pi sigma_0) -> the pole term added to the right-hand side,
    # which include_pole_terms = False drops as a negative control
    pole: Callable


def _one_plus_spectral(w, integral):
    return 1.0 + (2.0 / math.pi) * integral


def _x_imag(eps, x, weight):
    return x * np.imag(eps)


# W is the transverse pole weight (pole_weight), sigma_0 the static
# transverse conductivity; each formula holds for eps_L with W = sigma_0 = 0
_KERNELS = {
    # Re eps(omega) = 1 + (2/pi) PV int_0^inf x Im eps(x) / (x^2 - omega^2)
    # dx - W / omega^2, subtracting the second-order pole
    "real-from-imag": Kernel(True, _x_imag, _one_plus_spectral, np.real,
                             lambda om, weight, sigma: -weight / (om * om)),
    # Im eps(omega) = -(2 omega/pi) PV int_0^inf [Re eps(x) + W / x^2]
    # / (x^2 - omega^2) dx + 4 pi sigma_0 / omega, subtracting the
    # first-order pole; W / x^2, without which the integral does not
    # exist, is always kept
    "imag-from-real": Kernel(
        True, lambda eps, x, weight: np.real(eps) + weight / (x * x),
        lambda om, integral: -(2.0 * om / math.pi) * integral, np.imag,
        lambda om, weight, sigma: sigma / om),
    # eps(i xi) = 1 + (2/pi) int_0^inf x Im eps(x) / (x^2 + xi^2) dx
    # + W / xi^2: no principal value, but the second-order pole survives
    "imag-axis": Kernel(False, _x_imag, _one_plus_spectral, lambda eps: eps,
                        lambda xi, weight, sigma: weight / (xi * xi)),
}


class Relation(NamedTuple):
    """One row of RELATIONS."""

    part: int              # _EPS_T or _EPS_L
    kernel: Kernel
    note: str = ""         # reported while eps_L is in its conducting limit


# at gamma = 0 or v_L k_hat = 0 eps_L is a conductor's, whose
# static-conductivity pole the eps_L form (sigma_0 = 0) lacks: flagged,
# not hidden
_CONDUCTING_NOTE = ("conducting limit: insulator-form relation omits the "
                    "static-conductivity pole and fails by construction")
RELATIONS = {
    f"{prefix}-{name}": Relation(
        part, kernel,
        _CONDUCTING_NOTE if (part, name) == (_EPS_L, "imag-from-real") else "")
    for prefix, part in (("t", _EPS_T), ("l", _EPS_L))
    for name, kernel in _KERNELS.items()
}


def _component_terms(part, params: NonlocalParams, k_hat, include_pole_terms):
    """(break points, pole weight W, 4 pi sigma_0) of checked inputs;
    W = sigma_0 = 0 for eps_L."""
    p = params.drude
    if part == _EPS_T:
        if p.gamma <= 0.0:
            raise DomainError("transverse dispersion relations need gamma > 0")
        return ((p.gamma,), pole_weight(params, k_hat),
                FOUR_PI * static_transverse_conductivity(params, k_hat))
    vlk = params.v_l_ratio * k_hat
    if p.gamma == 0.0 and vlk == 0.0:
        raise DomainError(
            "longitudinal response has an undamped real-axis pole when "
            "gamma = 0 and v_L k_hat = 0")
    if not include_pole_terms:
        raise DomainError("longitudinal relations carry no pole subtraction "
                          "to drop")
    return (p.gamma, vlk), 0.0, 0.0


def _integrals(kernel, part, model, k_hat, w, hints, weight):
    """The kernel's integrals over (0, inf) at the grid points w."""
    def g(x):
        return kernel.spectral(eval_real_axis(model, x, k_hat)[part], x,
                               weight)

    shift = w * w if kernel.real_axis else -(w * w)     # f = g / (x^2 - shift)
    g_ends = g(np.append(w, _CUTOFF))
    pole = g_ends[:-1] if kernel.real_axis else np.zeros_like(w)

    n = len(w)
    x_edges = np.sort(np.column_stack([
        np.tile(_EDGES, (n, 1)), np.tile(np.clip(hints, 0.0, _CUTOFF), (n, 1)),
        np.clip(w, 0.0, _CUTOFF)]), axis=1)
    # edges within 1e-9 share a u edge, so no node can round onto the pole
    u_edges = np.column_stack([np.zeros(n), np.cumsum(
        np.diff(x_edges) > 1e-9 * x_edges[:, 1:], axis=1)])
    at_u = x_edges.copy()                  # at_u[row, j]: x at u = j
    at_u[np.arange(n)[:, None], u_edges.astype(int)] = x_edges

    def integrand(rows, u):
        r, j = rows[:, None], u.astype(int)
        lo, hi = at_u[r, j], at_u[r, j + 1]
        x = lo + (u - j) * (hi - lo)
        return (hi - lo) * (g(x) - pole[r]) / (x * x - shift[r])

    total, _, converged = integrate(integrand, u_edges, _TOL, _ABS_TOL)
    if not (converged.all() and np.isfinite(total).all()):
        raise ConvergenceError("dispersion integral stalled", total)
    if kernel.real_axis:
        total = total + pole * np.log((_CUTOFF - w) / (_CUTOFF + w)) / (2.0 * w)
    return total + _CUTOFF * g_ends[-1] / (_CUTOFF * _CUTOFF - shift)


def verify_kk(relation: str, params: NonlocalParams, k_hat: float, grid=None,
              *, include_pole_terms: bool = True) -> KKReport:
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
    hints, weight, sigma_term = _component_terms(
        rel.part, params, k_hat, include_pole_terms)
    kernel = rel.kernel
    g = _resolve_grid(grid, "omega_grid" if kernel.real_axis else "xi_grid")
    if kernel.real_axis and not np.all(g < _CUTOFF):
        raise DomainError(f"omega_grid must lie below the cutoff {_CUTOFF} eV")
    model = NonlocalAlt(params)

    rhs = kernel.rebuild(g, _integrals(kernel, rel.part, model, k_hat, g,
                                       hints, weight))
    if include_pole_terms:
        rhs = rhs + kernel.pole(g, weight, sigma_term)
    # through the module-global names, so that a patched one sees the call
    axis = eval_real_axis if kernel.real_axis else eval_imag_axis
    lhs = kernel.target(axis(model, g, k_hat)[rel.part])
    residuals = np.abs(lhs - rhs) / np.maximum(
        np.maximum(abs(lhs), abs(rhs)), 1.0)
    conducting = params.drude.gamma == 0.0 or params.v_l_ratio * k_hat == 0.0
    return KKReport(relation, float(k_hat), tuple(float(x) for x in g),
                    tuple(float(r) for r in residuals), float(residuals.max()),
                    note=rel.note if conducting else "")
