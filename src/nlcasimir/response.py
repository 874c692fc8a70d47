"""Dielectric response models.

Each model is one function of the frequency i*z, written once.  With
D = omega_p^2 / (z (z + gamma)) the local models have eps = 1 + D
whatever the transverse wavevector; the plasma model is Drude's formula
at gamma = 0 (Plasma.params), not a second copy of it.  The nonlocal
alternative, with velocities v_T, v_L of the order of the Fermi
velocity, has eps_T = 1 + D (1 + v_T k_hat / z) and eps_L = 1 + D / (1 +
v_L k_hat / z), Drude's exactly at v = 0.  eval_imag_axis takes z = xi,
eval_real_axis z = -i omega.  The real axis refuses omega outside
[2^-511, 2^512) eV (about 1.5e-154 to 1.3e154), where omega^2 is not a
normal double, and inside it any pair that overflows to inf or NaN.

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
    if isinstance(values, float):    # np.float64 too; NaN fails both tests
        return (values >= 0.0 if allow_zero else values > 0.0) and values < math.inf
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
        self.params                  # DrudeParams checks omega_p

    @property
    def params(self) -> DrudeParams:
        """The Drude parameters it shares: omega_p at gamma = 0."""
        return DrudeParams(self.omega_p, 0.0)


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


def _eps_at(model: ResponseModel, z, k_hat) -> EpsPair:
    """The pair at frequency i*z, z = xi or -i omega, in the factored forms
    of the module docstring, which keep v = 0 bit-exact Drude."""
    if isinstance(model, (Drude, Plasma)):         # Plasma: gamma = 0
        p = model.params
        e = 1.0 + p.omega_p**2 / (z * (z + p.gamma))
        return EpsPair(e, e)
    if isinstance(model, NonlocalAlt):
        nl, p = model.params, model.params.drude
        d = p.omega_p**2 / (z * (z + p.gamma))
        return EpsPair(1.0 + d / (1.0 + nl.v_l_ratio * k_hat / z),
                       1.0 + d * (1.0 + nl.v_t_ratio * k_hat / z))
    if isinstance(model, PerfectReflector):
        raise UnsupportedOperationError(
            "perfect reflector has no permittivity; its reflection "
            "amplitudes are defined directly")
    raise TypeError(f"unknown response model {model!r}")


def eval_imag_axis(model: ResponseModel, xi: float, k_hat: float = 0.0) -> EpsPair:
    """Permittivity pair at imaginary frequency i*xi (xi in eV, > 0).

    Returns real values >= 1 for every shipped model.  xi = 0 is deliberately
    rejected: the static limit enters the theory only through the analytic
    zero-frequency reflection coefficients.
    """
    check_point(xi, k_hat)
    if isinstance(model, WithCore):
        inner = eval_imag_axis(model.inner, xi, k_hat)
        shift = model.core.value_at(xi) - 1.0
        return EpsPair(inner.eps_l + shift, inner.eps_t + shift, inner.passive)
    return _eps_at(model, xi, k_hat)


def eval_real_axis(model: ResponseModel, omega, k_hat=0.0) -> EpsPair:
    """Complex permittivity pair at real frequency omega (eV, > 0).

    The imaginary-axis formulas at xi = -i omega, e^{-i omega t}
    convention, so Im eps > 0 means absorption.  The transverse component
    of the nonlocal model turns negative-dissipation for
    k_hat > gamma*c/v_T; the returned pair is then flagged non-passive.
    omega and k_hat broadcast, each entry with the bits of its scalar call,
    which runs numpy's loops on one entry and returns Python complex.
    omega must lie in [2^-511, 2^512) eV, where omega^2 is a normal
    double, and the pair must come out finite, or DomainError.
    """
    check_point(omega, k_hat, "omega")
    low, high = np.min(omega), np.max(omega)
    if low < 2.0**-511 or high >= 2.0**512:
        raise DomainError("omega must lie in [2^-511, 2^512) eV, got "
                          f"{low if low < 2.0**-511 else high}")
    if isinstance(model, WithCore):
        raise UnsupportedOperationError(
            "interband cores are tabulated on the imaginary axis only")
    local = not isinstance(model, NonlocalAlt)     # shaped by omega alone
    z = -1j * np.atleast_1d(omega)
    try:                # from finite inputs only an overflow gives inf or NaN
        with np.errstate(over="raise", invalid="raise"):
            eps_l, eps_t, _ = _eps_at(model, z, k_hat)
    except FloatingPointError:  # refused only where a component is not finite
        with np.errstate(all="ignore"):
            eps_l, eps_t, _ = _eps_at(model, z, k_hat)
        if not (np.isfinite(eps_l).all() and np.isfinite(eps_t).all()):
            raise DomainError("the permittivity overflows for omega in "
                              f"[{low}, {high}] eV") from None
    if np.ndim(omega) == 0 and (local or np.ndim(k_hat) == 0):
        eps_l, eps_t = complex(eps_l[0]), complex(eps_t[0])
    return EpsPair(eps_l, eps_t, local or
                   model.params.v_t_ratio * k_hat <= model.params.drude.gamma)


def pole_weight(params: NonlocalParams, k_hat):
    """Static pole weight W = omega_p^2 v_T k_hat / gamma: eps_T ~ W / z^2."""
    return params.drude.omega_p**2 * params.v_t_ratio * k_hat / params.drude.gamma


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
