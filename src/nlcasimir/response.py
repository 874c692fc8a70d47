"""Dielectric response models.

Local models (Drude, plasma) know nothing about the transverse wavevector.
The nonlocal alternative carries two velocity parameters v_T, v_L of the
order of the Fermi velocity; its transverse and longitudinal permittivities
acquire k-dependent factors that vanish smoothly as the velocities go to
zero, recovering the Drude forms exactly.

Evaluation happens in (frequency, k_hat) variables where k_hat = hbar*c*k_perp
is the transverse wavevector as an energy in eV.  The incidence-angle picture
used for reflectance work is recovered by k_hat = omega*sin(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, TYPE_CHECKING, Union

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, UnsupportedOperationError

if TYPE_CHECKING:
    from .optical_data import CoreTable

FOUR_PI = 12.566370614359172


def finite_and_positive(values, allow_zero=False) -> bool:
    """Whether every entry is finite and > 0 (>= 0 with allow_zero)."""
    v = np.asarray(values)           # min and max propagate NaN: it fails
    low, high = v.min(initial=np.inf), v.max(initial=0.0)
    return (low >= 0.0 if allow_zero else low > 0.0) and high < np.inf


def check_point(x, k_hat, name="xi"):
    """DomainError unless x > 0 and k_hat >= 0, all finite."""
    if not finite_and_positive(x):
        raise DomainError(f"{name} must be finite and positive, got {x}")
    if not finite_and_positive(k_hat, allow_zero=True):
        raise DomainError(f"k_hat must be finite and >= 0, got {k_hat}")


@dataclass(frozen=True)
class DrudeParams:
    """Plasma frequency and relaxation rate, both as energies in eV."""

    omega_p: float
    gamma: float

    def __post_init__(self):
        # written so that NaN and inf fail too
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError(f"omega_p must be finite and positive, got {self.omega_p}")
        if not 0.0 <= self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class NonlocalParams:
    """Drude backbone plus the two response velocities in units of c."""

    drude: DrudeParams
    v_t_ratio: float
    v_l_ratio: float

    def __post_init__(self):
        if not (0.0 <= self.v_t_ratio < math.inf
                and 0.0 <= self.v_l_ratio < math.inf):
            raise DomainError("velocity ratios must be finite and >= 0")


@dataclass(frozen=True)
class Drude:
    params: DrudeParams


@dataclass(frozen=True)
class Plasma:
    omega_p: float

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError(f"omega_p must be finite and positive, got {self.omega_p}")


@dataclass(frozen=True)
class NonlocalAlt:
    params: NonlocalParams


@dataclass(frozen=True)
class PerfectReflector:
    """Idealized mirror.  Has no permittivity; reflection amplitudes are
    fixed at (1, -1) directly in the reflection layer."""


@dataclass(frozen=True)
class WithCore:
    """Wraps another model, replacing the leading unity of its permittivity
    by an interband core function of imaginary frequency."""

    inner: "ResponseModel"
    core: "CoreTable"


ResponseModel = Union[Drude, Plasma, NonlocalAlt, PerfectReflector, WithCore]


class EpsPair(NamedTuple):
    """Longitudinal and transverse permittivities at one evaluation point.

    ``passive`` goes False when the transverse imaginary part is negative
    on the real axis (possible for k_hat > gamma*c/v_T); evaluation still
    proceeds, the flag just marks the point.
    """

    eps_l: complex
    eps_t: complex
    passive: bool = True


def gold_default() -> NonlocalAlt:
    """Au preset: hbar*omega_p = 9.0 eV, hbar*gamma = 35 meV, v_T = v_L = 7 v_F."""
    seven_vf = 7.0 * CONSTANTS.fermi_velocity_ratio_default
    return NonlocalAlt(NonlocalParams(DrudeParams(9.0, 0.035),
                                      v_t_ratio=seven_vf, v_l_ratio=seven_vf))


PRESETS = {
    "gold-default": gold_default,
}


def eval_imag_axis(model: ResponseModel, xi: float, k_hat: float = 0.0) -> EpsPair:
    """Permittivity pair at imaginary frequency i*xi (xi in eV, > 0).

    Returns real values >= 1 for every shipped model.  xi = 0 is deliberately
    rejected: the static limit enters the theory only through the analytic
    zero-frequency reflection coefficients.
    """
    check_point(xi, k_hat)

    if isinstance(model, Drude):
        p = model.params
        e = 1.0 + p.omega_p**2 / (xi * (xi + p.gamma))
        return EpsPair(e, e)
    if isinstance(model, Plasma):
        e = 1.0 + model.omega_p**2 / (xi * xi)
        return EpsPair(e, e)
    if isinstance(model, NonlocalAlt):
        p = model.params.drude
        drude_term = p.omega_p**2 / (xi * (xi + p.gamma))
        # Factored forms keep the v=0 reduction to Drude bit-exact.
        eps_t = 1.0 + drude_term * (1.0 + model.params.v_t_ratio * k_hat / xi)
        eps_l = 1.0 + drude_term / (1.0 + model.params.v_l_ratio * k_hat / xi)
        return EpsPair(eps_l, eps_t)
    if isinstance(model, WithCore):
        inner = eval_imag_axis(model.inner, xi, k_hat)
        shift = model.core.value_at(xi) - 1.0
        return EpsPair(inner.eps_l + shift, inner.eps_t + shift, inner.passive)
    if isinstance(model, PerfectReflector):
        raise UnsupportedOperationError(
            "perfect reflector has no permittivity; its reflection "
            "amplitudes are defined directly")
    raise TypeError(f"unknown response model {model!r}")


def _drude_term(p: DrudeParams, omega):
    """omega_p^2 / (omega (omega + i gamma)) as real and imaginary parts."""
    scale = p.omega_p**2 / (omega * omega + p.gamma * p.gamma)
    return scale, -scale * p.gamma / omega


def _one_minus(re, im):
    """1 - (re + i im); 1j * im scales by 0 and 1 only, so it is exact."""
    return (1.0 - re) - 1j * im


def eval_real_axis(model: ResponseModel, omega, k_hat=0.0) -> EpsPair:
    """Complex permittivity pair at real frequency omega (eV, > 0).

    Analytic continuation of the imaginary-axis forms, e^{-i omega t}
    convention, so Im eps > 0 means absorption.  The transverse component
    of the nonlocal model turns negative-dissipation for
    k_hat > gamma*c/v_T; the returned pair is then flagged non-passive.
    omega and k_hat broadcast, each entry with the bits of its scalar call.
    """
    check_point(omega, k_hat, "omega")

    if isinstance(model, NonlocalAlt):
        nl = model.params
        p = nl.drude
        dr, di = _drude_term(p, omega)
        # 1 - D (1 + i t) and 1 - D / (1 + i s) = 1 - D (1 - i s) / (1 + s^2)
        t = nl.v_t_ratio * k_hat / omega
        s = nl.v_l_ratio * k_hat / omega
        eps_t = _one_minus(dr - di * t, dr * t + di)
        eps_l = _one_minus((dr + di * s) / (1.0 + s * s),
                           (di - dr * s) / (1.0 + s * s))
        passive = nl.v_t_ratio * k_hat <= p.gamma
        return EpsPair(eps_l, eps_t, passive)
    if isinstance(model, Drude):
        e = _one_minus(*_drude_term(model.params, omega))
        return EpsPair(e, e)
    if isinstance(model, Plasma):
        e = _one_minus(model.omega_p**2 / (omega * omega), 0.0)
        return EpsPair(e, e)
    if isinstance(model, WithCore):
        raise UnsupportedOperationError(
            "interband cores are tabulated on the imaginary axis only")
    if isinstance(model, PerfectReflector):
        raise UnsupportedOperationError(
            "perfect reflector has no permittivity")
    raise TypeError(f"unknown response model {model!r}")


def static_transverse_conductivity(params: NonlocalParams, k_hat: float) -> float:
    """Static limit of the transverse conductivity, Gaussian units, in eV.

    omega_p^2 (gamma - v_T k_hat) / (4 pi gamma^2); reduces to the Drude
    static conductivity omega_p^2/(4 pi gamma) at k_hat = 0 and crosses
    zero where the transverse dissipation changes sign.
    """
    g = params.drude.gamma
    if g == 0.0:
        raise DomainError("static conductivity diverges at gamma = 0")
    return params.drude.omega_p**2 * (g - params.v_t_ratio * k_hat) / (FOUR_PI * g * g)
