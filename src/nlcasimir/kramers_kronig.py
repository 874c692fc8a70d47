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
ids, and verify_kk checks any of them on a grid; it is the only entry
point to the checks.

verify_kk integrates a relation in one pass of nlcasimir.quadrature whose
rows are its grid points w; eval_real_axis takes all nodes as one array.
The relations of one component that a call names share their edges, so
no node pass of eps is evaluated twice for them.  Each row starts on
[0, 1e-3] eV and 14 log panels up to the cutoff K = 1e4 eV, split at the
break points (gamma, v_L k_hat) and at w, and runs in u, its initial
panel's index plus the position inside it, so that each initial panel
gets the same share of the tolerance.  On the real axis the pole is
subtracted, leaving the integrand finite at x = w:

    PV int_0^K g(x) / (x^2 - w^2) dx = int_0^K [g(x) - g(w)] / (x^2 - w^2) dx
                                       + g(w) ln((K - w) / (K + w)) / (2w)

The tail beyond K is K f(K), as in the tests' slow QUADPACK reference
(tests/reference_paths.py).

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
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import integrate
from .response import (FOUR_PI, NonlocalAlt, NonlocalParams, eval_imag_axis,
                       eval_real_axis, pole_weight,
                       static_transverse_conductivity)

# patched by name in perfbench/tracing.py until its kk counters read
# verify_kk (ROADMAP 1); the QUADPACK reference lives in tests/
pv_integral = quad = None


@dataclass
class KKReport:
    """Pointwise residuals of one dispersion relation on one grid."""

    relation: str
    k_hat: float
    grid: Tuple[float, ...]
    residuals: Tuple[float, ...]
    max_residual: float
    note: str = ""


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
_CUTOFF = 1e4                  # eV; the tail estimate K f(K) covers the rest
# [0, 1e-3] eV, then two log panels per decade up to the cutoff
_EDGES = np.concatenate([[0.0], np.geomspace(1e-3, _CUTOFF, 15)])
# |K21 - G10| is G10's error, far above K21's; much below 1e-6 it meets the
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


def _integrals(kernels, part, model, k_hat, w, hints, weight):
    """Yield (integrals over (0, inf) at the grid points w, real-axis eps
    at w) per kernel; they share edges, ends and every equal node pass."""
    n = len(w)
    x_edges = np.sort(np.column_stack([
        np.tile(_EDGES, (n, 1)), np.tile(np.clip(hints, 0.0, _CUTOFF), (n, 1)),
        np.clip(w, 0.0, _CUTOFF)]), axis=1)
    # edges within 1e-9 share a u edge, so no node can round onto the pole
    u_edges = np.column_stack([np.zeros(n), np.cumsum(
        np.diff(x_edges) > 1e-9 * x_edges[:, 1:], axis=1)])
    at_u = x_edges.copy()                  # at_u[row, j]: x at u = j
    at_u[np.arange(n)[:, None], u_edges.astype(int)] = x_edges
    ends = np.append(w, _CUTOFF)
    eps_ends = eval_real_axis(model, ends, k_hat)[part]
    seen = []                              # per pass: rows, u, (x, width, eps)

    def nodes(rows, u):
        for r, v, hit in seen:
            if np.array_equal(rows, r) and np.array_equal(u, v):
                return hit
        r, j = rows[:, None], u.astype(int)
        lo, hi = at_u[r, j], at_u[r, j + 1]
        x = lo + (u - j) * (hi - lo)
        seen.append((rows, u, (x, hi - lo, eval_real_axis(model, x, k_hat)[part])))
        return seen[-1][2]

    for kernel in kernels:
        shift = w * w if kernel.real_axis else -(w * w)   # f = g / (x^2 - shift)
        g_ends = kernel.spectral(eps_ends, ends, weight)
        pole = g_ends[:-1] if kernel.real_axis else np.zeros_like(w)

        def integrand(rows, u):
            x, width, eps = nodes(rows, u)
            r = rows[:, None]
            return (width * (kernel.spectral(eps, x, weight) - pole[r])
                    / (x * x - shift[r]))

        total, _, converged = integrate(integrand, u_edges, _TOL, _ABS_TOL)
        if not (converged.all() and np.isfinite(total).all()):
            raise ConvergenceError("dispersion integral stalled", total)
        if kernel.real_axis:
            total = total + pole * np.log((_CUTOFF - w) / (_CUTOFF + w)) / (2.0 * w)
        yield (total + _CUTOFF * g_ends[-1] / (_CUTOFF * _CUTOFF - shift),
               eps_ends[:-1])


def verify_kk(relations: Sequence[str], params: NonlocalParams, k_hat: float,
              grid=None, *, include_pole_terms: bool = True) -> List[KKReport]:
    """Check relations of RELATIONS pointwise on grid; one report per id,
    in the order given.

    grid holds omega, or xi for the imaginary-axis relations (default: 13
    points geometric in [0.05, 5] eV).  include_pole_terms = False drops
    the transverse pole subtraction as a negative control; longitudinal
    relations have none to drop and raise DomainError.  The relations of
    one component are checked together, eps_T's first, whatever the order.
    """
    unknown = [rid for rid in relations if rid not in RELATIONS]
    if unknown:
        raise DomainError(f"unknown relation ids {unknown}; choose from "
                          f"{', '.join(RELATIONS)}")
    components = {}                        # table order: eps_T first
    for rid, rel in RELATIONS.items():
        if rid in relations:
            components.setdefault(rel.part, []).append(rid)
    model = NonlocalAlt(params)
    conducting = params.drude.gamma == 0.0 or params.v_l_ratio * k_hat == 0.0
    reports = {}
    for part, ids in components.items():
        hints, weight, sigma_term = _component_terms(
            part, params, k_hat, include_pole_terms)
        kernels = [RELATIONS[rid].kernel for rid in ids]
        g = _resolve_grid(grid, "omega_grid" if kernels[0].real_axis else "xi_grid")
        if any(k.real_axis for k in kernels) and not np.all(g < _CUTOFF):
            raise DomainError(f"omega_grid must lie below the cutoff {_CUTOFF} eV")
        integrals = _integrals(kernels, part, model, k_hat, g, hints, weight)
        for rid, kernel, (integral, eps_g) in zip(ids, kernels, integrals):
            rhs = kernel.rebuild(g, integral)
            if include_pole_terms:
                rhs = rhs + kernel.pole(g, weight, sigma_term)
            # eps_g has the bits of eval_real_axis(model, g, k_hat)
            lhs = kernel.target(eps_g if kernel.real_axis
                                else eval_imag_axis(model, g, k_hat)[part])
            residuals = np.abs(lhs - rhs) / np.maximum(
                np.maximum(abs(lhs), abs(rhs)), 1.0)
            reports[rid] = KKReport(
                rid, float(k_hat), tuple(float(x) for x in g),
                tuple(float(r) for r in residuals), float(residuals.max()),
                note=RELATIONS[rid].note if conducting else "")
    return [reports[rid] for rid in relations]
